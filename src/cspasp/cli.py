"""Command-line interface.

Subcommands: encode, solve, check, gen, bench.  Exit codes follow the
convention 10 = satisfiable, 20 = unsatisfiable, 0 = other success,
1 = usage or input error (including oracle disagreement in check),
2 = resource limit (timeout, conflict budget, size cap).
"""

from __future__ import annotations

import argparse
import random
import sys

from .benchmarks import (
    FAMILIES,
    BenchSpec,
    random_instance,
    random_state,
    run_suite,
)
from .csp import consistency_oracle, format_instance, parse_instance
from .encoder import (
    ENCODING_NAMES,
    TRANSLATIONS,
    Encoding,
    EncodingKind,
    EncodingMap,
    EncodingPropagator,
    encode,
    run,
)
from .errors import CapExceeded
from .program import completion_nogoods, emit_ground, parse_ground
from .propagation import dump_nogoods
from .solver import SAT, UNSAT


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; we reserve 2 for resources."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _require_at_least(flag: str, value, least) -> None:
    """Reject a flag's value below ``least``; None means the flag is unset.
    Written as "not >=" so that NaN, which fails every comparison, fails."""
    if value is not None and not value >= least:
        raise ValueError(f"{flag} must be at least {least}, not {value}")


def _kind(args) -> EncodingKind:
    name = args.encoding or "support"
    hall = getattr(args, "hall_limit", None)
    if hall is not None and not TRANSLATIONS[name].hall:
        raise ValueError(f"--hall-limit does not apply to the {name} encoding")
    return EncodingKind(name, hall)


def _metadata_header(instance, kind: EncodingKind) -> str:
    hall = "-" if kind.hall_limit is None else str(kind.hall_limit)
    lines = [f"% cspasp encoding={kind.name} hall_limit={hall}"]
    for line in format_instance(instance).splitlines():
        lines.append(f"% {line}" if line else "%")
    lines.append("% end")
    return "\n".join(lines) + "\n"


def _split_header(text: str):
    """Recover (instance, kind) from an encode-produced header, if any."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("% cspasp "):
        return None
    fields = dict(
        part.split("=", 1) for part in lines[0].split()[2:] if "=" in part
    )
    hall = fields.get("hall_limit", "-")
    if hall != "-" and not hall.isdecimal():
        raise ValueError(f"encode header: bad hall_limit {hall!r}")
    try:
        kind = EncodingKind(fields.get("encoding", "support"), None if hall == "-" else int(hall))
    except ValueError as exc:
        raise ValueError(f"encode header: {exc}") from None
    # a blank line stands for the "% cspasp" line and two blanks for each
    # "% ", so errors in the instance point at their place in the file
    body = [""]
    for line in lines[1:]:
        if line.strip() == "% end":
            break
        body.append("  " + line[2:] if line.startswith("% ") else "")
    return parse_instance("\n".join(body)), kind


# -- encode -----------------------------------------------------------------------


def _cmd_encode(args) -> int:
    instance = parse_instance(_read_text(args.input))
    kind = _kind(args)
    enc = encode(instance, kind)
    text = emit_ground(enc.program)
    if not args.no_header:
        text = _metadata_header(instance, kind) + text
    _write_text(args.output, text)
    return 0


# -- solve ------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    _require_at_least("--timeout", args.timeout, 0)
    text = _read_text(args.input)
    enc = None
    embedded = _split_header(text)
    headered = embedded is not None
    encoding_flags = args.encoding is not None or args.hall_limit is not None
    if headered:
        # the program body is what gets solved; the header only decodes
        if encoding_flags:
            raise ValueError("encode output fixes its encoding; drop -e/--hall-limit")
        instance, kind = embedded
        program = parse_ground(text)
        enc = Encoding(instance, kind, EncodingMap(instance), program)
    else:
        try:
            instance = parse_instance(text)
        except ValueError as instance_error:
            try:
                program = parse_ground(text)
            except ValueError as program_error:
                raise ValueError(
                    f"not a CSP instance ({instance_error}) "
                    f"nor a ground program ({program_error})"
                ) from None
            if encoding_flags:
                raise ValueError("a ground program has no encoding to set; drop -e/--hall-limit")
        else:
            enc = encode(instance, _kind(args))
            program = enc.program
    if args.emit_nogoods:
        _write_text(args.emit_nogoods, dump_nogoods(completion_nogoods(program)))
    enumerating = args.enumerate is not None
    limit = (args.enumerate if args.enumerate > 0 else None) if enumerating else 1
    try:
        status, answers, stats, sizes = run(program if enc is None else enc, args.timeout, limit)
    except ValueError as exc:
        if not headered:
            raise
        # an edited body can drop, pin or free the header's encoding atoms
        raise ValueError(f"the program body does not match its header: {exc}") from None
    out = [] if enumerating else [status]
    for i, answer in enumerate(answers, 1):
        if enumerating:
            out.append(f"MODEL {i}")
        out.extend(map(str, answer) if enc is None else (f"{k} = {v}" for k, v in answer.items()))
    if enumerating:
        out.append(f"models = {len(answers)}")
    if args.stats:
        out.append(stats.as_text() + "".join(f" {k}={v}" for k, v in sizes.items()))
    _write_text(args.output, "\n".join(out) + "\n")
    return {SAT: 10, UNSAT: 20}.get(status, 2)


# -- check ------------------------------------------------------------------------


def _cmd_check(args) -> int:
    for flag, value, least in (("--max-vars", args.max_vars, 2),
                               ("--max-dom", args.max_dom, 1), ("--trials", args.trials, 0)):
        _require_at_least(flag, value, least)
    kind = _kind(args)
    level = TRANSLATIONS[kind.name].level
    hole_free = TRANSLATIONS[kind.name].order  # order encodings see only a state's ends
    rng = random.Random(f"check:{args.seed}")
    agreed = skipped = 0
    for trial in range(args.trials):
        instance = random_instance(rng, args.max_vars, args.max_dom,
                                   holes=not hole_free)
        state = random_state(rng, instance, intervals=hole_free)
        try:
            propagator = EncodingPropagator(encode(instance, kind))
            pruned = propagator.propagate(state)
            oracle = consistency_oracle(instance, state, level)
        except CapExceeded:
            skipped += 1
            continue
        if not _agrees(kind, instance, pruned, oracle):
            print(f"disagree on trial {trial}")
            print(format_instance(instance), end="")
            print(f"state: {state!r}")
            print(f"propagator: {'CONFLICT' if pruned is None else pruned!r}")
            print(f"oracle:     {oracle!r}")
            return 1
        agreed += 1
    tail = f" (skipped {skipped})" if skipped else ""
    print(f"agree {agreed}/{agreed}{tail}")
    return 0


def _agrees(encoding, instance, pruned, oracle) -> bool:
    """Whether ``pruned`` meets the oracle's level under ``encoding``, a
    name or an EncodingKind.  Unit propagation on a ``within`` encoding,
    or on one whose Hall limit drops counting rules, is held to the level
    from within: it prunes no value the oracle keeps, and conflicts only
    where the oracle does.  The others must reach it exactly."""
    if isinstance(encoding, str):
        encoding = EncodingKind(encoding)
    if pruned is None:
        return oracle.is_inconsistent()
    if TRANSLATIONS[encoding.name].within or encoding.hall_limit is not None:
        return oracle.is_inconsistent() or all(
            set(oracle[d.name]) <= set(pruned[d.name]) for d in instance.variables
        )
    if oracle.is_inconsistent():
        return False
    return all(pruned[d.name] == oracle[d.name] for d in instance.variables)


# -- gen --------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    params = {name: getattr(args, name) for name in FAMILIES[args.family].params}
    instance = BenchSpec(args.family, params).build()
    _write_text(args.output, format_instance(instance))
    return 0


# -- bench ------------------------------------------------------------------------


def _cmd_bench(args) -> int:
    _require_at_least("--timeout", args.timeout, 0)
    specs = [BenchSpec.parse(s) for s in args.spec]
    names = args.encoding or list(ENCODING_NAMES)
    if args.hall_limit is not None and not any(TRANSLATIONS[n].hall for n in names):
        raise ValueError(f"--hall-limit applies to no selected encoding ({', '.join(names)})")
    kinds = [EncodingKind(n, args.hall_limit if TRANSLATIONS[n].hall else None) for n in names]
    report = run_suite(specs, kinds, timeout_s=args.timeout)
    _write_text(args.output, report.to_text())
    if args.csv:
        _write_text(args.csv, report.to_csv())
    return 0


# -- parser -----------------------------------------------------------------------


def _add_encoding_flags(sub, multiple: bool = False) -> None:
    if multiple:
        sub.add_argument("-e", "--encoding", action="append",
                         choices=list(ENCODING_NAMES), default=None,
                         help="encoding(s) to run; repeatable, default all")
    else:
        sub.add_argument("-e", "--encoding", choices=list(ENCODING_NAMES),
                         default=None, help="encoding to use (default support)")
    sub.add_argument("--hall-limit", type=int, default=None, metavar="H",
                     help="cap interval width for cardinality rules "
                          "(range/bound only)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cspasp", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("encode", help="translate an instance to a ground program")
    p.add_argument("input", help="instance file, or - for stdin")
    _add_encoding_flags(p)
    p.add_argument("--no-header", action="store_true",
                   help="omit the metadata header used for pipe composition")
    p.add_argument("-o", "--output", default=None, help="write here instead of stdout")
    p.set_defaults(func=_cmd_encode)

    p = commands.add_parser("solve", help="solve an instance or ground program")
    p.add_argument("input", help="instance file, encode output, or ground program")
    _add_encoding_flags(p)
    p.add_argument("--enumerate", type=int, default=None, metavar="K",
                   help="enumerate up to K models (0 or negative: no bound)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    p.add_argument("--stats", action="store_true", help="append a statistics line")
    p.add_argument("--emit-nogoods", default=None, metavar="PATH",
                   help="dump the completion nogoods before solving")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_solve)

    p = commands.add_parser("check",
                            help="compare propagation against the consistency oracle")
    _add_encoding_flags(p)
    p.add_argument("--trials", type=int, default=100,
                   help="random instance/state pairs to compare")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vars", type=int, default=5)
    p.add_argument("--max-dom", type=int, default=5)
    p.set_defaults(func=_cmd_check)

    p = commands.add_parser("gen", help="emit a benchmark instance")
    families = p.add_subparsers(dest="family", required=True)
    for name, family in FAMILIES.items():
        f = families.add_parser(name, help=family.help)
        for key, param in family.params.items():
            if param.type is bool:
                f.add_argument(f"--{key}", action="store_true", help=param.help)
            else:
                f.add_argument(f"--{key}", type=param.type, required=param.default is None,
                               default=param.default, help=param.help)
        f.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = commands.add_parser("bench", help="run a benchmark suite")
    p.add_argument("--spec", action="append", required=True, metavar="FAMILY:K=V,...",
                   help="e.g. php:n=8 or qcp:order=10,fill=30,seed=1; repeatable")
    _add_encoding_flags(p, multiple=True)
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    p.add_argument("--csv", default=None, metavar="PATH", help="also write CSV here")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"cspasp: resource cap: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cspasp: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cspasp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

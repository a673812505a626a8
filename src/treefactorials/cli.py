"""Command line front end.

Subcommands map one-to-one onto the library layers: `factorials` and
`equidist` drive the weighting process, `oracle-check` cross-validates the
three independent computations of the same sequence, `adelic` handles
integer sets, `flow`, `branching` the network quantities, and `realize` the
inverse construction.  Output is plain lines or CSV, deterministic byte for
byte for a fixed invocation.

Exit codes: 0 on success, 1 on a domain error (the error class name goes to
stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import adelic as adelic_mod
from . import flow as flow_mod
from .engine import (
    Canonical,
    SeededRandom,
    capacity_bound,
    factorials_greedy_oracle,
    factorials_minmax,
    factorials_removed,
    factorials_weighting,
)
from .errors import ParseError, TreeFactorialError
from .realize import BiasedSequence, OrderChoice, verify_roundtrip
from .sources import _require_prime, expand, parse_generator_spec
from .trees import (INF, _content_lines, _float, _int_str, _str_int, format_length, parse_length,
                    parse_tree_file, serialize_tree)


_TRUNCATION = "truncation depth (default: a tree file's height; required with --gen)"


def _add_source_args(p: argparse.ArgumentParser, depth_help: str | None = None) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--tree", metavar="FILE", help="explicit tree file")
    g.add_argument("--gen", metavar="SPEC", help="generator spec, e.g. 'regular d=2 length=1'")
    if depth_help:
        p.add_argument("--depth", type=int, metavar="H", help=depth_help)


# argparse type, like parse_length: the ValueError of a malformed value is a
# usage error.
def integer_list(text: str) -> list[int]:
    return [_str_int(tok) for tok in text.split(",") if tok.strip() != ""]


class _UnreadableInput(Exception):
    """An input file could not be read: exit code 2, like a usage error."""


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise _UnreadableInput(exc) from exc


def _load_source(args):
    if args.tree is not None:
        return parse_tree_file(_read(args.tree))
    return parse_generator_spec(args.gen)


def _load_network(args):
    """The source and its truncation depth: --depth if given, else a tree
    file's height (at least 1); a generator needs --depth."""
    source = _load_source(args)
    if args.depth is not None:
        return source, args.depth
    if args.tree is None:
        raise ParseError("--depth is required with --gen")
    return source, max(max(source.depths), 1)


def _policy(args):
    return SeededRandom(args.seed) if getattr(args, "seed", None) is not None else Canonical()


def _fmt(x: Fraction, as_float: bool) -> str:
    return repr(_float(x)) if as_float else format_length(x)


def _print_sequence(values, args) -> None:
    if args.csv:
        print("n,a_n_num,a_n_den,a_n_float")
    for n, v in enumerate(values):
        print(f"{n},{_int_str(v.numerator)},{_int_str(v.denominator)},{_float(v)!r}" if args.csv
              else f"a_{n} = {format_length(v)}")


def _cmd_factorials(args) -> int:
    source = _load_source(args)
    if args.t:
        run = factorials_removed(source, args.t, args.n, _policy(args), record_trace=args.trace)
    else:
        run = factorials_weighting(source, args.n, _policy(args), record_trace=args.trace)
    if args.trace:
        for step in run.trace:
            print(
                f"# step {step.n}: case {step.case} at vertex {step.vertex}, "
                f"value {format_length(step.value)}"
            )
    _print_sequence(run.sequence.values, args)
    return 0


def _cmd_oracle_check(args) -> int:
    tree = expand(*_load_network(args))
    n = args.n
    bound = capacity_bound(tree)
    if bound != INF:
        n = min(n, int(bound) - 1)
    a = factorials_weighting(tree, n).sequence.values
    b = factorials_greedy_oracle(tree, n).values
    c = factorials_minmax(tree, n).values
    if a == b == c:
        print("OK: weighting == greedy == minmax")
        return 0
    i = next(i for i in range(n + 1) if not a[i] == b[i] == c[i])
    print(
        f"Mismatch at n={i}: weighting={format_length(a[i])} "
        f"greedy={format_length(b[i])} minmax={format_length(c[i])}",
        file=sys.stderr,
    )
    return 1


def _cmd_adelic(args) -> int:
    if args.p is not None:
        _require_prime(args.p)
        facts = [args.p**v for v in adelic_mod.factorials_prime(args.set, args.p, args.n).values]
    else:
        facts = adelic_mod.bhargava_factorials(args.set, args.n)
    if args.csv:
        print("n,factorial")
    for n, v in enumerate(facts):
        print(f"{n},{_int_str(v)}" if args.csv else f"factorial({n}) = {_int_str(v)}")
    return 0


def _cmd_flow(args) -> int:
    fl = flow_mod.unit_current_flow(*_load_network(args))
    # Flows, escape and walk (on the flow's own truncation) are computed
    # before any line is printed, so a rejected input prints none.
    if args.csv:
        flows = sorted(fl.flows.items())
        print("edge_parent,edge_child,flow_num,flow_den")
        for v, f in flows:
            print(f"{fl.tree.parents[v]},{v},{_int_str(f.numerator)},{_int_str(f.denominator)}")
        return 0
    escape = fl.escape
    walk = flow_mod._walk(fl.tree, args.trials, args.seed or 0) if args.trials else None
    print(f"resistance = {_fmt(fl.energy, args.float)}")
    print(f"energy = {_fmt(fl.energy, args.float)}")
    print(f"escape = {_fmt(escape, args.float)}")
    if walk is not None:
        print(
            f"escape_mc = {walk.fraction!r} (trials={walk.trials}, "
            f"timeouts={walk.timeouts})"
        )
    return 0


def _cmd_branching(args) -> int:
    source = _load_source(args)
    report = flow_mod.branching_number_estimate(
        source, args.lambda_lo, args.lambda_hi, depth=args.depth, tol=args.tol
    )
    for lam, verdict, last in report.evaluations:
        print(f"# lam={format_length(lam)}: {verdict} (R={last!r})")
    print(f"low = {_fmt(report.low, args.float)}")
    print(f"high = {_fmt(report.high, args.float)}")
    print(f"status = {report.status}")
    return 0


def _parse_sequence_file(text: str, d: int) -> BiasedSequence:
    rows: dict[int, dict[int, Fraction]] = {}
    for ln, line in _content_lines(text):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ParseError("expected 'generation,position,value'", line=ln)
        try:
            n, i = _str_int(parts[0]), _str_int(parts[1])
            value = parse_length(parts[2])
        except ValueError:
            raise ParseError(f"bad sequence row {line!r}", line=ln)
        rows.setdefault(n, {})[i] = value
    if not rows:
        raise ParseError("empty sequence file")
    depth = max(rows)
    groups = []
    for n in range(depth + 1):
        size = d if n == 0 else d**n
        got = rows.get(n, {})
        # The sizes compare first: a size past any list never reaches range().
        if len(got) != size or sorted(got) != list(range(1, size + 1)):
            raise ParseError(f"generation {n} needs positions 1..{_int_str(size)}")
        groups.append(tuple(got[i] for i in range(1, size + 1)))
    return BiasedSequence(d, tuple(groups))


def _parse_orders_file(text: str) -> OrderChoice:
    perms: dict[int, tuple[int, ...]] = {}
    for ln, line in _content_lines(text):
        if ":" not in line:
            raise ParseError("expected 'generation: slot,slot,...'", line=ln)
        head, tail = line.split(":", 1)
        try:
            n = _str_int(head)
            perm = tuple(_str_int(tok) for tok in tail.split(","))
        except ValueError:
            raise ParseError(f"bad order row {line!r}", line=ln)
        perms[n] = perm
    return OrderChoice(perms)


def _cmd_realize(args) -> int:
    seq = _parse_sequence_file(_read(args.seq), args.d)
    orders = _parse_orders_file(_read(args.orders)) if args.orders is not None else None
    # Every run checks the tree; --verify only reports the check.
    report = verify_roundtrip(seq, orders)
    sys.stdout.write(serialize_tree(report.tree))
    if args.verify:
        print("# roundtrip: first visits match")
        if report.full_prefix_match:
            print("# roundtrip: full prefix match")
    return 0


def _cmd_equidist(args) -> int:
    source, depth = _load_network(args)
    run = factorials_weighting(source, args.n, _policy(args))
    fl = flow_mod.unit_current_flow(source, depth)
    report = flow_mod.equidistribution_check(run, fl)
    if args.csv:
        print("address,depth,omega_tilde,eta,deviation")
        for address, w, f in report.rows:
            dotted = ".".join(str(i) for i in address)
            print(
                f"{dotted},{len(address)},{format_length(w)},{format_length(f)},"
                f"{format_length(abs(w - f))}"
            )
        return 0
    print(
        f"max_deviation = {format_length(report.max_deviation)} "
        f"({float(report.max_deviation)!r})"
    )
    return 0


# Built once per process, binding each _cmd_* then: a test replacing one
# would have to do so before the first main call (no test does).
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treefactorials",
        description="Factorial sequences, flows, and realizations on rooted metric trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorials", help="run the weighting process")
    _add_source_args(p)
    p.add_argument("--n", type=int, required=True, help="last index to emit")
    p.add_argument("--t", type=int, default=0, help="pairings to discount (default 0)")
    p.add_argument(
        "--seed",
        type=int,
        help="break ties between equal-valued vertices at random, reproducibly from this seed "
        "(changes --trace, never the values)",
    )
    p.add_argument("--csv", action="store_true", help="CSV output")
    p.add_argument("--trace", action="store_true", help="emit per-step trace lines")
    p.set_defaults(func=_cmd_factorials)

    p = sub.add_parser("oracle-check", help="compare weighting, greedy, and min-max values")
    _add_source_args(p, _TRUNCATION)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("adelic", help="generalized factorials of an integer set")
    p.add_argument("--set", type=integer_list, required=True, metavar="A,B,...", help="comma-separated integers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--p",
        type=int,
        help="report only the p-part at this prime (primality is proven below 3.3e24; "
        "a larger p is a domain error)",
    )
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_adelic)

    p = sub.add_parser("flow", help="resistance, unit flow, and escape probability")
    _add_source_args(p, _TRUNCATION)
    p.add_argument("--csv", action="store_true", help="per-edge flow CSV")
    p.add_argument("--trials", type=int, help="Monte Carlo escape trials")
    p.add_argument("--seed", type=int, help="Monte Carlo seed")
    p.add_argument("--float", action="store_true", help="print floats instead of fractions")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("branching", help="bracket the branching number")
    _add_source_args(p, "deepest truncation of the resistance schedule (default 4096)")
    p.add_argument("--lambda-lo", type=parse_length, required=True, metavar="L")
    p.add_argument("--lambda-hi", type=parse_length, required=True, metavar="L")
    p.add_argument("--tol", type=parse_length, default="1/20", help="bracket width target (default 1/20)")
    p.add_argument("--float", action="store_true")
    p.set_defaults(func=_cmd_branching, depth=4096)

    p = sub.add_parser("realize", help="build a tree realizing a biased sequence")
    p.add_argument("--d", type=int, required=True, help="children per vertex")
    p.add_argument("--seq", required=True, metavar="FILE", help="rows 'generation,position,value'")
    p.add_argument("--orders", metavar="FILE", help="rows 'generation: slot,slot,...'")
    p.add_argument("--verify", action="store_true", help="report the roundtrip check (every run makes it)")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("equidist", help="edge frequencies of a run vs the harmonic flow")
    _add_source_args(p, _TRUNCATION)
    p.add_argument("--n", type=int, required=True, help="weighting steps")
    p.add_argument("--seed", type=int, help="break ties between equal-valued vertices at random from this seed")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_equidist)

    # Every type=int option reads through trees._str_int: any length, past the int-string digit cap.
    for p in sub.choices.values():
        p.register("type", int, _str_int)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a value such as -5,3 or -1/2 as an option: join it to
    # the bare --option before it.
    for i in range(len(argv) - 1, 0, -1):
        opt, value = argv[i - 1], argv[i]
        if opt.startswith("--") and "=" not in opt and value[:1] == "-" and value[1:2].isdigit():
            argv[i - 1 : i + 1] = [f"{opt}={value}"]
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except TreeFactorialError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except _UnreadableInput as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

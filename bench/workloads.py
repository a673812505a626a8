"""The benchmark's three workloads: seeded inputs, ops and output checks.

Each workload function takes the seed and a scratch directory and returns the
ops of one pass.  Inputs come only from the seed; the library sees only the
generated trees, specs, integer sets and files.  Checks use closed forms
where they exist and an independent route otherwise.

corpus-oracle  thousands of tiny decorated trees, each run through the
               weighting engine and both oracles; min-max dominates.
deep-lazy      a few long weighting runs on lazily generated trees: both
               selection paths, int and Fraction arithmetic, and the numpy
               branch of superadditivity_gap on long sequences.
cli-mix        one `treefactorials` command per op, run in-process: the only
               workload where flow, adelic, realize and cli do the work.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from measure import Op
from treefactorials import INF, RootedTree, adelic, cli, engine, sequences, sources, trees

CORPUS_TREES = 1500
CORPUS_MAX_N = 11
# Per-op deadlines, far above what any op takes at the seed commit.
TREE_DEADLINE_S = 5.0
OP_DEADLINE_S = 30.0


@dataclass
class Workload:
    ops: list[Op]
    # Captured stdout per cli op, filled in as the ops run.
    stdout: dict[str, str] = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def _random_tree(rng: random.Random, edges: int, lengths, caps, need_inf: bool = False) -> RootedTree:
    parents = [-1] + [rng.randrange(v) for v in range(1, edges + 1)]
    internal = set(parents[1:])
    leaves = [v for v in range(edges + 1) if v not in internal]
    cap = {v: rng.choice(caps) for v in leaves}
    if need_inf and INF not in cap.values():
        cap[rng.choice(leaves)] = INF
    return RootedTree.build(parents, [0] + [rng.choice(lengths) for _ in range(edges)], cap)


def _digit_sum(n: int, p: int) -> int:
    s = 0
    while n:
        n, r = divmod(n, p)
        s += r
    return s


def legendre_closed_form(n: int, p: int) -> int:
    """v_p(n!) = (n - s_p(n)) / (p - 1)."""
    return (n - _digit_sum(n, p)) // (p - 1)


def level_closed_form(n: int, branching, level_length) -> Fraction:
    """a_n of a spherically symmetric tree: sum over levels k of the edge
    length into depth k times floor(n / (b_0 ... b_{k-1})).

    The min-max recursion on identical children splits n+1 selections as
    evenly as possible, so the largest share is floor(n / b) + 1.
    """
    total = Fraction(0)
    k = 0
    while n:
        n //= branching(k)
        total += level_length(k) * n
        k += 1
    return total


def series_parallel_resistance(tree: RootedTree) -> Fraction:
    """Root-to-ground resistance by series-parallel reduction, written
    apart from the flow module: leaves of capacity inf are grounded, other
    leaves are open and carry no current."""

    def conductance_below(v):  # of the subtree at v, 0 when open
        if not tree.children[v]:
            return None if tree.capacities[v] == INF else Fraction(0)
        total = Fraction(0)
        for c in tree.children[v]:
            g = conductance_below(c)
            if g is None:  # grounded leaf right below
                total += 1 / tree.lengths[c]
            elif g:
                total += 1 / (tree.lengths[c] + 1 / g)
        return total

    return 1 / conductance_below(0)


def _first_mismatch(got, want_of) -> str | None:
    for n, v in enumerate(got):
        want = want_of(n)
        if v != want:
            return f"a_{n} = {v}, want {want}"
    return None


def _tail_checks(values, gap, lim) -> str | None:
    if gap is not None:
        return f"superadditivity gap at {gap}"
    k = len(values) - 1
    if lim is not None and lim.value != values[k] / k:
        return f"limit_estimate value {lim.value} != a_{k}/{k}"
    return None


# corpus-oracle -------------------------------------------------------------


def corpus_oracle(seed: int, workdir: str) -> Workload:
    rng = _rng("corpus-oracle", seed)
    lengths = (Fraction(1), Fraction(3, 2), Fraction(2))
    # Equal counts per edge count keep the mix, and so the pass time, the
    # same across seeds.
    corpus = [_random_tree(rng, 1 + i % 6, lengths, (1, 2, INF)) for i in range(CORPUS_TREES)]
    rng.shuffle(corpus)
    ops = []
    for i, tree in enumerate(corpus):
        bound = engine.capacity_bound(tree)
        n = CORPUS_MAX_N if bound == INF else min(CORPUS_MAX_N, int(bound) - 1)

        def call(tree=tree, n=n):
            a = engine.factorials_weighting(tree, n).sequence
            b = engine.factorials_greedy_oracle(tree, n)
            c = engine.factorials_minmax(tree, n)
            gap = sequences.superadditivity_gap(a.values)
            lim = sequences.limit_estimate(a) if n >= 1 else None
            return a, b, c, gap, lim

        def check(out):
            a, b, c, gap, lim = out
            if not a.values == b.values == c.values:
                return f"weighting {a.values} greedy {b.values} minmax {c.values}"
            return _tail_checks(a.values, gap, lim)

        ops.append(Op(f"tree{i}", call, check, TREE_DEADLINE_S))
    return Workload(ops)


# deep-lazy -----------------------------------------------------------------


def _long_run(name, run, want_of, extra_check=None) -> Op:
    def call():
        seq = run().sequence
        return seq, sequences.superadditivity_gap(seq.values), sequences.limit_estimate(seq)

    def check(out):
        seq, gap, lim = out
        return (
            (want_of and _first_mismatch(seq.values, want_of))
            or (extra_check and extra_check(seq.values))
            or _tail_checks(seq.values, gap, lim)
        )

    return Op(name, call, check, OP_DEADLINE_S)


def deep_lazy(seed: int, workdir: str) -> Workload:
    rng = _rng("deep-lazy", seed)
    binary, ternary = sources.RegularSource(2), sources.RegularSource(3)
    # The trees stay fixed, because a run's cost moves with the size of the
    # lengths' denominators; the seed drives the tie-break stream.
    lam = Fraction(3, 2)
    scaled = sources.LambdaScaledSource(binary, lam)
    branching, sph_lengths = (2, 3), (Fraction(1, 2), Fraction(2, 3))
    spherical = sources.SphericalSource(branching, sph_lengths)
    tie_seed = rng.randrange(2**32)

    def removed_check(values):
        # The removed score drops terms, so it never exceeds the plain
        # process, and both grow at the same rate (criterion 10's bound).
        if values[0] != 0 or values[1] != 0:
            return "t=1 must start with two zeros"
        for n, v in enumerate(values):
            if v > legendre_closed_form(n, 2):
                return f"removed a_{n} = {v} above the plain term"
        n = len(values) - 1
        if abs(values[n] - legendre_closed_form(n, 2)) / n >= Fraction(1, 20):
            return "removed and plain sequences drift apart"
        return None

    ops = [
        _long_run("regular-2", lambda: engine.factorials_weighting(binary, 2**14),
                  lambda n: legendre_closed_form(n, 2)),
        _long_run("regular-3", lambda: engine.factorials_weighting(ternary, 2**12),
                  lambda n: legendre_closed_form(n, 3)),
        _long_run("removed-1", lambda: engine.factorials_removed(binary, 1, 2**12), None,
                  extra_check=removed_check),
        _long_run("lambda", lambda: engine.factorials_weighting(scaled, 2**11),
                  lambda n: level_closed_form(n, lambda k: 2, lambda k: lam**k)),
        _long_run("spherical", lambda: engine.factorials_weighting(spherical, 2**12),
                  lambda n: level_closed_form(n, lambda k: branching[k % 2], lambda k: sph_lengths[k % 2])),
        # Seeded tie-breaking takes the lazy-heap path, quadratic on this
        # tree; its values must still be the canonical ones.
        _long_run("seeded", lambda: engine.factorials_weighting(binary, 2**10, engine.SeededRandom(tie_seed)),
                  lambda n: legendre_closed_form(n, 2)),
    ]
    return Workload(ops)


# cli-mix -------------------------------------------------------------------


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _fields(out: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line and not line.startswith("#"))


def _flow_check(resistance_of, root_conductance: Fraction):
    def check(out):
        got = {k: trees.parse_length(v) for k, v in _fields(out).items()}
        r = resistance_of()
        want = {"resistance": r, "energy": r, "escape": 1 / (root_conductance * r)}
        return None if got == want else f"got {got}, want {want}"

    return check


def _bhargava_check(elements, n_max):
    # greedy_bhargava_oracle picks integers greedily by valuation: no tree.
    def check(out):
        got = [int(v) for v in _fields(out).values()]
        want = adelic.greedy_bhargava_oracle(elements, n_max)
        if got != want:
            return f"n!_S {got[:4]}... differs from the greedy oracle {want[:4]}..."
        bad = [n for n, v in enumerate(got) if v % math.factorial(n)]
        return f"n! does not divide n!_S at n={bad[0]}" if bad else None

    return check


def _adelic_set(rng, count, scale, spread_digits):
    """`count` integers offset + scale*k_i, with distinct k_i below
    10**spread_digits / scale.

    Only the offset is seeded.  n!_S depends only on differences, so a
    translate changes the integers but not the work, which keeps the pass
    time the same across seeds; the pattern k_i is one fixed random draw.
    """
    offset = rng.randrange(10**spread_digits, 9 * 10**spread_digits)
    pattern = random.Random(f"adelic-pattern:{count}:{scale}:{spread_digits}")
    ks = sorted(pattern.sample(range(10**spread_digits // scale), count))
    return [offset + scale * k for k in ks]


# A prime near 3e13: every relevant prime is re-checked by trial division in
# AdelicSetSource, which costs ~sqrt(p)/2 steps, so this one prime makes the
# 18-digit op take about half a second at the seed commit.
_P18 = 30000000000011


def cli_mix(seed: int, workdir: str) -> Workload:
    rng = _rng("cli-mix", seed)
    work = Workload([])

    def op(name, argv, check):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            work.stdout[name] = out.getvalue()
            return code, out.getvalue(), err.getvalue()

        def checked(result):
            code, out, err = result
            if code != 0 or err:
                return f"exit {code}: {err.strip()}"
            return check(out)

        work.ops.append(Op(name, call, checked, OP_DEADLINE_S))

    # flow: closed forms on generated trees, an independent series-parallel
    # reduction on a tree file.
    depth = 11
    op("flow-regular", ["flow", "--gen", "regular d=2", "--depth", str(depth)],
       _flow_check(lambda: 1 - Fraction(1, 2**depth), Fraction(2)))
    # Specs stay fixed, as in deep-lazy.
    b, ls = (2, 3), (Fraction(1, 2), Fraction(2, 3))
    count, res = 1, Fraction(0)
    for k in range(9):
        count *= b[k % 2]
        res += ls[k % 2] / count
    op("flow-spherical",
       ["flow", "--gen", f"spherical b={b[0]},{b[1]} length={ls[0]},{ls[1]}", "--depth", "9"],
       _flow_check(lambda: res, b[0] / ls[0]))
    lam = Fraction(3, 2)
    op("flow-lambda", ["flow", "--gen", f"lambda base=(regular d=2) lambda={lam}", "--depth", str(depth)],
       _flow_check(lambda: sum(lam**k / 2 ** (k + 1) for k in range(depth)), Fraction(2)))
    flow_tree = _random_tree(rng, 800, (Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2)), (1, 2, INF), need_inf=True)
    root_conductance = sum(1 / flow_tree.lengths[c] for c in flow_tree.children[0])
    op("flow-tree", ["flow", "--tree", _write(workdir, "flow.tree", trees.serialize_tree(flow_tree))],
       _flow_check(lambda: series_parallel_resistance(flow_tree), root_conductance))

    # adelic: plain factorials on a translated range, then two wide sets.
    k = 40
    start = rng.randrange(10**6)
    op("adelic-range", ["adelic", "--set", ",".join(str(start + i) for i in range(k)), "--n", str(k - 1)],
       lambda out: None if [int(v) for v in _fields(out).values()] == [math.factorial(n) for n in range(k)]
       else "n!_S of a range must be n!")
    wide = _adelic_set(rng, 20, 1, 12)
    op("adelic-12digit", ["adelic", "--set", ",".join(map(str, wide)), "--n", "19"], _bhargava_check(wide, 19))
    huge = _adelic_set(rng, 16, _P18, 17)
    op("adelic-18digit", ["adelic", "--set", ",".join(map(str, huge)), "--n", "15"], _bhargava_check(huge, 15))

    # weighting through the CLI: seeded tie-breaks, equidistribution.
    n = 512

    def seeded_check(out):
        rows = [r.split(",") for r in out.splitlines()[1:]]
        if len(rows) != n + 1:
            return f"{len(rows)} rows, want {n + 1}"
        return _first_mismatch([Fraction(int(num), int(den)) for _, num, den, _ in rows],
                               lambda i: legendre_closed_form(i, 2))

    # Seeded tie-breaks must give the canonical values (choice independence).
    op("factorials-seeded",
       ["factorials", "--gen", "regular d=2", "--n", str(n), "--seed", str(rng.randrange(2**31)), "--csv"],
       seeded_check)
    # The bisection's cost depends on d, so d stays fixed.
    d = 3

    def branching_check(out):
        got = _fields(out)
        low, high = trees.parse_length(got["low"]), trees.parse_length(got["high"])
        ok = got["status"] == "bracketed" and low <= d <= high and high - low <= Fraction(1, 20)
        return None if ok else f"bracket {got} misses {d}"

    op("branching", ["branching", "--gen", f"regular d={d}", "--lambda-lo", "1", "--lambda-hi", "5"], branching_check)
    op("equidist", ["equidist", "--gen", "regular d=2", "--depth", "3", "--n", "4096"],
       lambda out: None if trees.parse_length(_fields(out)["max_deviation"].split()[0]) < Fraction(1, 50)
       else "deviation above criterion 7's 1/50")

    # oracle-check and realize report their own verdicts.
    small = _random_tree(rng, 8, (Fraction(1), Fraction(3, 2), Fraction(2)), (1, 2, INF), need_inf=True)
    op("oracle-check", ["oracle-check", "--tree", _write(workdir, "small.tree", trees.serialize_tree(small)), "--n", "11"],
       lambda out: None if out == "OK: weighting == greedy == minmax\n" else f"verdict {out!r}")
    op("realize", ["realize", "--d", "2", "--seq", _write(workdir, "seq.csv", _biased_rows(rng, 2, 8)), "--verify"],
       _realize_check)
    return work


def _biased_rows(rng: random.Random, d: int, depth: int) -> str:
    """Rows 'generation,position,value' of a sufficiently biased sequence:
    each generation starts far above the sum of earlier ones and climbs by
    random steps larger than every ancestor-path shift."""
    rows = [f"0,{i + 1},0" for i in range(d)]
    running = value = 0
    for n in range(1, depth + 1):
        running += value
        step = running + 1
        value = 4 * d**n * (running + 2 * d**n * step) + d**n + rng.randrange(step)
        for i in range(d**n):
            if i:
                value += step + rng.randrange(step)
            rows.append(f"{n},{i + 1},{value}")
    return "\n".join(rows) + "\n"


def _realize_check(out: str) -> str | None:
    lines = out.splitlines()
    if lines[-2:] != ["# roundtrip: first visits match", "# roundtrip: full prefix match"]:
        return f"roundtrip verdict {lines[-2:]}"
    tree = trees.parse_tree_file("\n".join(lines[:-2]))
    return None if all(len(c) in (0, 2) for c in tree.children) else "realized tree is not binary"


WORKLOADS = {"corpus-oracle": corpus_oracle, "deep-lazy": deep_lazy, "cli-mix": cli_mix}
